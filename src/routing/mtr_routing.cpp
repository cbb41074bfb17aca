#include "routing/mtr_routing.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>

#include "routing/cdg.hpp"

namespace deft {

namespace {

bool is_vertical(const Channel& c) {
  return c.src_port == Port::up || c.src_port == Port::down;
}

/// The pre-synthesis turn rule: XY inside every mesh, vertical reversals
/// forbidden, every other vertical-adjacent turn initially allowed.
bool initial_turn_allowed(const Channel& in, const Channel& out) {
  if (is_horizontal(in.src_port) && is_horizontal(out.src_port)) {
    return xy_turn_allowed(in, out);
  }
  if (is_vertical(in) && is_vertical(out)) {
    return false;  // down->up / up->down through one boundary router
  }
  return true;
}

/// Turn slot of the turn from channel `in` into output port `out` of the
/// router `in` enters: one byte per (channel, port) in the restriction set.
std::size_t turn_slot(ChannelId in, Port out) {
  return static_cast<std::size_t>(in) * kNumPorts +
         static_cast<std::size_t>(port_index(out));
}

/// The pre-synthesis channel turn graph: channel -> every channel
/// initial_turn_allowed lets it turn into, in output-port order.
std::vector<std::vector<int>> unrestricted_turns(const Topology& topo) {
  std::vector<std::vector<int>> adj(
      static_cast<std::size_t>(topo.num_channels()));
  for (ChannelId in = 0; in < topo.num_channels(); ++in) {
    const Channel& cin = topo.channel(in);
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out = topo.out_channel(cin.dst, static_cast<Port>(p));
      if (out != kInvalidChannel &&
          initial_turn_allowed(cin, topo.channel(out))) {
        adj[static_cast<std::size_t>(in)].push_back(out);
      }
    }
  }
  return adj;
}

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    dst[w] |= src[w];
  }
}

/// Calls f(i) for every set bit i of a `words`-word bitset, in order.
template <typename F>
void for_each_bit(const std::uint64_t* bits, std::size_t words, F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
    }
  }
}

}  // namespace

/// The synthesis' view of MTR's inter-chiplet routes, which cross exactly
/// once: source mesh -> one down VL -> interposer -> one up VL ->
/// destination mesh. Each leg is explored on a graph that forbids any
/// other vertical channel, so a combination recorded here never silently
/// depends on a third vertical channel: combo-alive implies deliverable
/// under the fault pattern. The legs decide both connectivity during
/// synthesis and the fault-reachability combos.
///
/// A leg graph holds, once and in CSR form, every line-graph edge its leg
/// rule and the initial turn rule allow; each edge keeps its turn slot
/// (-1 for injection and ejection edges), so a restriction costs one byte
/// test. Every leg graph is acyclic - XY holds inside each mesh, and
/// within a leg a vertical channel is only ever a source or a sink - so
/// the targets reachable from every line node follow from one pass in
/// reverse topological order that ORs the successors' bitsets. The
/// targets are the down and up VLs a source reaches (source leg, one bit
/// per VL channel id), the up VLs and interposer endpoints a descent
/// reaches (interposer leg), and the endpoints an ascent reaches
/// (destination leg).
class MtrPlan::Legs {
 public:
  explicit Legs(const MtrPlan& plan);

  /// Recomputes every leg under the plan's restriction set.
  void propagate_all();

  /// Called with turn `slot` just forbidden: re-runs the legs holding it
  /// and keeps them when every different-mesh endpoint pair still has a
  /// single-crossing route; otherwise restores their previous bitsets and
  /// returns false.
  bool admits(std::size_t slot);

  /// Endpoint pair -> usable vertical combinations under the current
  /// restriction set, laid out as MtrPlan::combos_.
  std::vector<std::uint64_t> pair_combos() const;

 private:
  enum Leg { kSource, kInterposerLeg, kDestination, kNumLegs };

  struct Graph {
    std::vector<int> offsets;  ///< CSR: per line node, plus one
    std::vector<int> succ;
    std::vector<int> slot;     ///< per edge: turn slot, or -1
    std::vector<int> target;   ///< per line node: its target bit, or -1
    std::vector<int> order;    ///< reverse topological order, sinks first
    std::size_t words = 0;     ///< bitset words per line node
    std::vector<std::uint64_t> reach;  ///< targets reachable per line node
    std::vector<std::uint64_t> saved;  ///< reach before the pending turn

    const std::uint64_t* row(int node) const {
      return reach.data() + static_cast<std::size_t>(node) * words;
    }
    void propagate(const std::vector<std::uint8_t>& forbidden);
  };

  template <typename EdgeOk, typename TargetOf>
  void build(Leg leg, EdgeOk edge_ok, TargetOf target_of, std::size_t words);
  bool connected();

  /// The VL channels endpoint index `s`'s source leg reaches.
  const std::uint64_t* source_row(std::size_t s) const {
    return graphs_[kSource].row(topo_.num_channels() + topo_.endpoints()[s]);
  }

  const MtrPlan& plan_;
  const Topology& topo_;
  std::size_t ep_words_;  ///< words of an endpoint bitset
  std::size_t vl_words_;  ///< words of a VL bitset
  /// Per endpoint index: its mesh, chiplet + 1 (0 is the interposer).
  std::vector<int> mesh_;
  /// Per mesh: the endpoints outside it, which its sources must reach.
  std::vector<std::uint64_t> required_;
  /// Per turn slot: bit `leg` set when that leg's graph holds the turn.
  std::vector<std::uint8_t> slot_legs_;
  std::array<Graph, kNumLegs> graphs_;
  /// connected() scratch: per VL channel, the endpoints a source leg
  /// reaching it delivers to; and one source's union of those.
  std::vector<std::uint64_t> delivery_;
  std::vector<std::uint64_t> reach_;
};

MtrPlan::Legs::Legs(const MtrPlan& plan)
    : plan_(plan),
      topo_(*plan.topo_),
      ep_words_(words_for(plan.topo_->endpoints().size())),
      vl_words_(words_for(static_cast<std::size_t>(plan.topo_->num_vls()))),
      slot_legs_(plan.forbidden_.size(), 0),
      delivery_(static_cast<std::size_t>(plan.topo_->num_vl_channels()) *
                    ep_words_,
                0),
      reach_(ep_words_, 0) {
  for (NodeId n : topo_.endpoints()) {
    mesh_.push_back(topo_.node(n).chiplet + 1);
  }
  const std::size_t meshes = static_cast<std::size_t>(topo_.num_chiplets()) + 1;
  required_.assign(meshes * ep_words_, 0);
  for (std::size_t m = 0; m < meshes; ++m) {
    for (std::size_t e = 0; e < mesh_.size(); ++e) {
      if (static_cast<std::size_t>(mesh_[e]) != m) {
        required_[m * ep_words_ + e / 64] |= std::uint64_t{1} << (e % 64);
      }
    }
  }

  const int channels = topo_.num_channels();
  const int ejections = channels + topo_.num_nodes();  // first ejection node
  const auto endpoint_of = [&](int l) {
    return l >= ejections ? plan.endpoint_index(l - ejections) : -1;
  };
  // Source leg: walks may not continue past any vertical channel (the
  // first vertical reached is the descent, or the ascent for interposer
  // sources).
  build(
      kSource, [](const Channel& in, const Channel&) { return !is_vertical(in); },
      [&](int l) {
        return l < channels && is_vertical(topo_.channel(l))
                   ? topo_.channel(l).vl_channel
                   : -1;
      },
      words_for(static_cast<std::size_t>(topo_.num_vl_channels())));
  // Interposer leg: down -> interposer horizontals -> up only. Its bitsets
  // hold the interposer endpoints, then (word-aligned) the up VLs.
  const auto interposer_horizontal = [this](const Channel& c) {
    return is_horizontal(c.src_port) &&
           topo_.node(c.src).chiplet == kInterposer;
  };
  build(
      kInterposerLeg,
      [&](const Channel& in, const Channel& out) {
        return (in.src_port == Port::down || interposer_horizontal(in)) &&
               (interposer_horizontal(out) || out.src_port == Port::up);
      },
      [&](int l) {
        if (l < channels) {
          const Channel& c = topo_.channel(l);
          // An up channel carries VL channel 2 * vl + 1.
          return c.src_port == Port::up
                     ? static_cast<int>(ep_words_ * 64) + c.vl_channel / 2
                     : -1;
        }
        const int e = endpoint_of(l);
        return e >= 0 && mesh_[static_cast<std::size_t>(e)] == 0 ? e : -1;
      },
      ep_words_ + vl_words_);
  // Destination leg: up -> destination-mesh horizontals -> ejection.
  build(
      kDestination,
      [](const Channel& in, const Channel& out) {
        return !is_vertical(out) &&
               (in.src_port == Port::up || is_horizontal(in.src_port));
      },
      endpoint_of, ep_words_);
}

template <typename EdgeOk, typename TargetOf>
void MtrPlan::Legs::build(Leg leg, EdgeOk edge_ok, TargetOf target_of,
                          std::size_t words) {
  Graph& g = graphs_[leg];
  const int channels = topo_.num_channels();
  const int nodes = topo_.num_nodes();
  const int size = channels + 2 * nodes;
  g.offsets.assign(1, 0);
  for (ChannelId in = 0; in < channels; ++in) {
    const Channel& cin = topo_.channel(in);
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out = topo_.out_channel(cin.dst, static_cast<Port>(p));
      if (out == kInvalidChannel) {
        continue;
      }
      const Channel& cout = topo_.channel(out);
      if (edge_ok(cin, cout) && initial_turn_allowed(cin, cout)) {
        const std::size_t slot = turn_slot(in, cout.src_port);
        g.succ.push_back(out);
        g.slot.push_back(static_cast<int>(slot));
        slot_legs_[slot] |= static_cast<std::uint8_t>(1u << leg);
      }
    }
    g.succ.push_back(channels + nodes + cin.dst);  // ejection
    g.slot.push_back(-1);
    g.offsets.push_back(static_cast<int>(g.succ.size()));
  }
  for (NodeId n = 0; n < nodes; ++n) {  // injection
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out = topo_.out_channel(n, static_cast<Port>(p));
      if (out != kInvalidChannel) {
        g.succ.push_back(out);
        g.slot.push_back(-1);
      }
    }
    g.offsets.push_back(static_cast<int>(g.succ.size()));
  }
  // Ejection nodes have no successors.
  g.offsets.resize(static_cast<std::size_t>(size) + 1, g.offsets.back());

  g.target.resize(static_cast<std::size_t>(size));
  std::vector<int> indegree(static_cast<std::size_t>(size), 0);
  for (int l = 0; l < size; ++l) {
    g.target[static_cast<std::size_t>(l)] = target_of(l);
  }
  for (int to : g.succ) {
    ++indegree[static_cast<std::size_t>(to)];
  }
  for (int l = 0; l < size; ++l) {
    if (indegree[static_cast<std::size_t>(l)] == 0) {
      g.order.push_back(l);
    }
  }
  for (std::size_t i = 0; i < g.order.size(); ++i) {
    const auto l = static_cast<std::size_t>(g.order[i]);
    for (int e = g.offsets[l]; e < g.offsets[l + 1]; ++e) {
      const int to = g.succ[static_cast<std::size_t>(e)];
      if (--indegree[static_cast<std::size_t>(to)] == 0) {
        g.order.push_back(to);
      }
    }
  }
  check(g.order.size() == static_cast<std::size_t>(size),
        "MtrPlan: a leg graph has a cycle");
  std::reverse(g.order.begin(), g.order.end());
  g.words = words;
  g.reach.assign(static_cast<std::size_t>(size) * words, 0);
  g.saved = g.reach;
}

void MtrPlan::Legs::Graph::propagate(
    const std::vector<std::uint8_t>& forbidden) {
  for (int node : order) {
    const auto l = static_cast<std::size_t>(node);
    std::uint64_t* bits = reach.data() + l * words;
    std::fill_n(bits, words, 0);
    if (const int t = target[l]; t >= 0) {
      bits[t / 64] |= std::uint64_t{1} << (t % 64);
    }
    for (int e = offsets[l]; e < offsets[l + 1]; ++e) {
      const int s = slot[static_cast<std::size_t>(e)];
      if (s < 0 || forbidden[static_cast<std::size_t>(s)] == 0) {
        or_into(bits, row(succ[static_cast<std::size_t>(e)]), words);
      }
    }
  }
}

void MtrPlan::Legs::propagate_all() {
  for (Graph& g : graphs_) {
    g.propagate(plan_.forbidden_);
  }
}

bool MtrPlan::Legs::admits(std::size_t slot) {
  const unsigned legs = slot_legs_[slot];
  for (int leg = 0; leg < kNumLegs; ++leg) {
    if ((legs >> leg) & 1u) {
      Graph& g = graphs_[static_cast<std::size_t>(leg)];
      g.saved.swap(g.reach);
      g.propagate(plan_.forbidden_);
    }
  }
  if (connected()) {
    return true;
  }
  for (int leg = 0; leg < kNumLegs; ++leg) {
    if ((legs >> leg) & 1u) {
      Graph& g = graphs_[static_cast<std::size_t>(leg)];
      g.reach.swap(g.saved);
    }
  }
  return false;
}

bool MtrPlan::Legs::connected() {
  // Every different-mesh endpoint pair must keep at least one
  // single-crossing route; same-mesh pairs ride plain (unrestricted) XY.
  // A source reaching an ascent delivers to that ascent's destination leg;
  // reaching a descent, to its interposer leg's endpoints and to the
  // destination leg of every ascent that leg reaches.
  const Graph& mid = graphs_[kInterposerLeg];
  const Graph& dst = graphs_[kDestination];
  for (const VerticalLink& vl : topo_.vls()) {
    std::uint64_t* down =
        delivery_.data() +
        static_cast<std::size_t>(vl.down_vl_channel()) * ep_words_;
    const std::uint64_t* descent = mid.row(vl.down_channel);
    std::copy_n(descent, ep_words_, down);
    for_each_bit(descent + ep_words_, vl_words_, [&](std::size_t up) {
      or_into(down, dst.row(topo_.vl(static_cast<VlId>(up)).up_channel),
              ep_words_);
    });
    std::copy_n(dst.row(vl.up_channel), ep_words_,
                delivery_.data() +
                    static_cast<std::size_t>(vl.up_vl_channel()) * ep_words_);
  }
  for (std::size_t s = 0; s < mesh_.size(); ++s) {
    std::fill(reach_.begin(), reach_.end(), 0);
    for_each_bit(source_row(s), graphs_[kSource].words, [&](std::size_t vc) {
      or_into(reach_.data(), delivery_.data() + vc * ep_words_, ep_words_);
    });
    const std::uint64_t* need =
        required_.data() + static_cast<std::size_t>(mesh_[s]) * ep_words_;
    for (std::size_t w = 0; w < ep_words_; ++w) {
      if ((need[w] & ~reach_[w]) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::uint64_t> MtrPlan::Legs::pair_combos() const {
  // Reachability semantics for Fig. 7: a pair survives a fault pattern
  // when MTR, keeping its design-time turn restrictions but aware of the
  // faults, can still deliver through some single-crossing route whose
  // two vertical channels are alive. The synthesis guaranteed at least
  // one combination per pair fault-free (connected()).
  const Graph& mid = graphs_[kInterposerLeg];
  const Graph& dst = graphs_[kDestination];
  const std::size_t num_ep = mesh_.size();
  std::vector<std::uint64_t> combos(num_ep * num_ep, 0);
  for (std::size_t s = 0; s < num_ep; ++s) {
    std::uint64_t* row = combos.data() + s * num_ep;
    // ORs `combo` into every endpoint of `targets` outside the source's
    // mesh.
    const auto add = [&](const std::uint64_t* targets, std::uint64_t combo) {
      for_each_bit(targets, ep_words_, [&](std::size_t d) {
        if (mesh_[d] != mesh_[s]) {
          row[d] |= combo;
        }
      });
    };
    for_each_bit(source_row(s), graphs_[kSource].words, [&](std::size_t vc) {
      const VerticalLink& vl = topo_.vl(static_cast<VlId>(vc / 2));
      if (vc % 2 == 1) {  // interposer source -> ascent -> chiplet
        add(dst.row(vl.up_channel), std::uint64_t{1} << vl.index_in_chiplet);
        return;
      }
      const int dn = vl.index_in_chiplet;
      const std::uint64_t* descent = mid.row(vl.down_channel);
      add(descent, std::uint64_t{1} << dn);  // -> interposer endpoint
      for_each_bit(descent + ep_words_, vl_words_, [&](std::size_t u) {
        const VerticalLink& up = topo_.vl(static_cast<VlId>(u));
        add(dst.row(up.up_channel),
            std::uint64_t{1} << (8 * dn + up.index_in_chiplet));
      });
    });
  }
  return combos;
}

MtrPlan::MtrPlan(const Topology& topo) : topo_(&topo) {
  forbidden_.assign(static_cast<std::size_t>(topo.num_channels()) * kNumPorts,
                    0);
  {
    Legs legs(*this);
    synthesize_restrictions(legs);
    combos_ = legs.pair_combos();
  }
  line_graph_ = std::make_unique<LineGraph>(
      topo, [this](const Topology&, const Channel& in, const Channel& out) {
        return turn_allowed(in.id, out.id);
      });
  build_route_tables();
  check(connectivity_preserved(),
        "MtrPlan: synthesis broke endpoint connectivity");
}

bool MtrPlan::turn_allowed(ChannelId in, ChannelId out) const {
  const Channel& cin = topo_->channel(in);
  const Channel& cout = topo_->channel(out);
  require(cout.src == cin.dst, "MtrPlan::turn_allowed: channels not adjacent");
  return initial_turn_allowed(cin, cout) &&
         forbidden_[turn_slot(in, cout.src_port)] == 0;
}

bool MtrPlan::connectivity_preserved() const {
  // Every endpoint must reach every other endpoint inside the allowed-turn
  // graph: the reverse search from each ejection (build_route_tables)
  // must have reached every other endpoint's injection.
  const std::vector<NodeId>& endpoints = topo_->endpoints();
  for (std::size_t d = 0; d < endpoints.size(); ++d) {
    for (NodeId s : endpoints) {
      if (s != endpoints[d] &&
          dist_[d][static_cast<std::size_t>(line_graph_->injection_node(s))] ==
              kUnreachable) {
        return false;
      }
    }
  }
  return true;
}

bool MtrPlan::try_synthesize(Legs& legs,
                             const std::vector<std::vector<int>>& unrestricted,
                             Rng* shuffle) {
  // Greedy cycle breaking: while the channel turn graph has a cycle, forbid
  // one restrictable turn on it whose removal keeps every endpoint pair
  // connected. Cycles cannot live inside a single mesh (XY is acyclic), so
  // every cycle crosses a vertical channel and offers restrictable turns.
  // The turn graph drops one edge per restriction, keeping successor
  // order, so is_acyclic sees what a rebuild from turn_allowed would.
  std::fill(forbidden_.begin(), forbidden_.end(), 0);
  restricted_turns_ = 0;
  legs.propagate_all();
  std::vector<std::vector<int>> turns = unrestricted;
  while (true) {
    std::vector<int> cycle;
    if (is_acyclic(turns, &cycle)) {
      return true;
    }
    std::vector<std::pair<ChannelId, ChannelId>> candidates;
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
      const ChannelId a = cycle[i];
      const ChannelId b = cycle[i + 1];
      if (is_vertical(topo_->channel(a)) || is_vertical(topo_->channel(b))) {
        candidates.emplace_back(a, b);  // intra-mesh XY turns stay untouched
      }
    }
    if (shuffle != nullptr) {
      for (std::size_t i = candidates.size(); i > 1; --i) {
        std::swap(candidates[i - 1], candidates[shuffle->uniform(i)]);
      }
    }
    bool restricted = false;
    for (const auto& [a, b] : candidates) {
      const std::size_t slot = turn_slot(a, topo_->channel(b).src_port);
      forbidden_[slot] = 1;
      if (legs.admits(slot)) {
        std::vector<int>& succ = turns[static_cast<std::size_t>(a)];
        succ.erase(std::find(succ.begin(), succ.end(), b));
        ++restricted_turns_;
        restricted = true;
        break;
      }
      forbidden_[slot] = 0;
    }
    if (!restricted) {
      return false;  // greedy wedged itself; caller restarts with a shuffle
    }
  }
}

void MtrPlan::synthesize_restrictions(Legs& legs) {
  // First-fit order is deterministic and usually converges; when it wedges
  // (every restrictable turn on some cycle has become load-bearing),
  // restart with seeded random candidate orders. The seed sequence is
  // fixed, so the resulting plan is still deterministic per topology.
  const std::vector<std::vector<int>> unrestricted = unrestricted_turns(*topo_);
  if (try_synthesize(legs, unrestricted, nullptr)) {
    return;
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    if (try_synthesize(legs, unrestricted, &rng)) {
      return;
    }
  }
  check(false,
        "MtrPlan: turn-restriction synthesis failed to converge on this "
        "topology");
}

void MtrPlan::build_route_tables() {
  // Reverse BFS from every endpoint's ejection node gives minimal
  // allowed-path distances for all line nodes.
  const int n = line_graph_->size();
  std::vector<std::vector<int>> pred(static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    for (int s : line_graph_->successors(l)) {
      pred[static_cast<std::size_t>(s)].push_back(l);
    }
  }
  dist_.assign(topo_->endpoints().size(),
               std::vector<std::uint16_t>(static_cast<std::size_t>(n),
                                          kUnreachable));
  std::deque<int> queue;
  for (std::size_t d = 0; d < topo_->endpoints().size(); ++d) {
    auto& dist = dist_[d];
    const int target =
        line_graph_->ejection_node(topo_->endpoints()[d]);
    dist[static_cast<std::size_t>(target)] = 0;
    queue.clear();
    queue.push_back(target);
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (int p : pred[static_cast<std::size_t>(cur)]) {
        if (dist[static_cast<std::size_t>(p)] == kUnreachable) {
          dist[static_cast<std::size_t>(p)] = static_cast<std::uint16_t>(
              dist[static_cast<std::size_t>(cur)] + 1);
          queue.push_back(p);
        }
      }
    }
  }
}

std::uint16_t MtrPlan::distance(int line_node, NodeId dst) const {
  const int d = endpoint_index(dst);
  require(d >= 0, "MtrPlan::distance: dst is not an endpoint");
  return dist_[static_cast<std::size_t>(d)][static_cast<std::size_t>(line_node)];
}

std::uint64_t MtrPlan::pair_combos(NodeId src, NodeId dst) const {
  const int s = endpoint_index(src);
  const int d = endpoint_index(dst);
  require(s >= 0 && d >= 0, "pair_combos: not endpoint nodes");
  return combos_[static_cast<std::size_t>(s) * topo_->endpoints().size() +
                 static_cast<std::size_t>(d)];
}

MtrRouting::MtrRouting(std::shared_ptr<const MtrPlan> plan, VlFaultSet faults,
                       int num_vcs)
    : plan_(std::move(plan)), num_vcs_(num_vcs) {
  require(plan_ != nullptr, "MtrRouting: plan required");
  require(num_vcs_ >= 1 && num_vcs_ <= kMaxVcs, "MtrRouting: bad VC count");
  set_faults(faults);
}

void MtrRouting::set_faults(const VlFaultSet& faults) {
  faults_ = faults;
  const Topology& topo = plan_->topo();
  alive_down_.clear();
  alive_up_.clear();
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    const auto n = topo.chiplet_vls(c).size();
    alive_down_.push_back(static_cast<std::uint8_t>(
        ~faults_.chiplet_down_mask(topo, c) & ((1u << n) - 1u)));
    alive_up_.push_back(static_cast<std::uint8_t>(
        ~faults_.chiplet_up_mask(topo, c) & ((1u << n) - 1u)));
  }
  rebuild_fault_tables();
  rebuild_route_cache();
}

void MtrRouting::rebuild_fault_tables() {
  fault_dist_.clear();
  const Topology& topo = plan_->topo();
  if (!faults_.empty()) {
    // Reverse BFS over the allowed-turn line graph with faulty vertical
    // channels removed: the design-time dist_ tables would otherwise steer
    // minimal routes into dead channels. This runs once per fault
    // scenario (set_faults is sweep drivers' per-point path), so the
    // predecessor graph is built flat (CSR) and the per-endpoint BFS
    // reuses one frontier buffer - no per-node heap vectors.
    const LineGraph& graph = plan_->line_graph();
    const std::size_t n = static_cast<std::size_t>(graph.size());
    std::vector<char>& faulty = scratch_faulty_;
    faulty.assign(n, 0);
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      const VlChannelId vc = topo.channel(c).vl_channel;
      faulty[static_cast<std::size_t>(c)] =
          vc >= 0 && faults_.is_faulty(vc) ? 1 : 0;
    }
    std::vector<std::size_t>& pred_off = scratch_pred_off_;
    pred_off.assign(n + 1, 0);
    for (std::size_t l = 0; l < n; ++l) {
      if (faulty[l]) {
        continue;
      }
      for (int s : graph.successors_flat(static_cast<int>(l))) {
        if (!faulty[static_cast<std::size_t>(s)]) {
          ++pred_off[static_cast<std::size_t>(s) + 1];
        }
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      pred_off[l + 1] += pred_off[l];
    }
    std::vector<int>& pred = scratch_pred_;
    pred.assign(pred_off.back(), 0);
    std::vector<std::size_t>& fill = scratch_fill_;
    fill.assign(pred_off.begin(), pred_off.end());
    for (std::size_t l = 0; l < n; ++l) {
      if (faulty[l]) {
        continue;
      }
      for (int s : graph.successors_flat(static_cast<int>(l))) {
        if (!faulty[static_cast<std::size_t>(s)]) {
          pred[fill[static_cast<std::size_t>(s)]++] = static_cast<int>(l);
        }
      }
    }
    fault_dist_.assign(topo.endpoints().size() * n, MtrPlan::kUnreachable);
    std::vector<int>& frontier = scratch_frontier_;
    frontier.reserve(n);
    for (std::size_t d = 0; d < topo.endpoints().size(); ++d) {
      std::uint16_t* dist = fault_dist_.data() + d * n;
      const int target = graph.ejection_node(topo.endpoints()[d]);
      dist[target] = 0;
      frontier.clear();
      frontier.push_back(target);
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const int cur = frontier[head];
        const std::uint16_t next_dist =
            static_cast<std::uint16_t>(dist[cur] + 1);
        for (std::size_t i = pred_off[static_cast<std::size_t>(cur)];
             i < pred_off[static_cast<std::size_t>(cur) + 1]; ++i) {
          const int p = pred[i];
          if (dist[p] == MtrPlan::kUnreachable) {
            dist[p] = next_dist;
            frontier.push_back(p);
          }
        }
      }
    }
  }
}

std::uint16_t MtrRouting::dist(int line_node, NodeId dst) const {
  if (fault_dist_.empty()) {
    return plan_->distance(line_node, dst);
  }
  const int d = plan_->endpoint_index(dst);
  require(d >= 0, "MtrRouting::dist: dst is not an endpoint");
  return fault_dist_[static_cast<std::size_t>(d) *
                         static_cast<std::size_t>(plan_->line_graph().size()) +
                     static_cast<std::size_t>(line_node)];
}

bool MtrRouting::prepare_packet(PacketRoute& route,
                                CounterRng* /*stream*/) {
  // MTR has no per-packet intermediate destinations: the route tables
  // already encode the (fixed) VL choices. Any VC may be used anywhere.
  route.down_node = kInvalidNode;
  route.up_exit = kInvalidNode;
  route.rc_absorb = false;
  route.initial_vcs = all_vcs_mask(num_vcs_);
  if (!pair_reachable(route.src, route.dst)) {
    return false;
  }
  // Belt and braces: the combo masks and the fault-aware line-graph BFS
  // must agree, but only the latter is what route() follows.
  return dist(plan_->line_graph().injection_node(route.src), route.dst) !=
         MtrPlan::kUnreachable;
}

void MtrRouting::rebuild_route_cache() {
  // Flatten the per-hop successor scan into one table lookup: for every
  // (line node, destination endpoint) record the minimal continuations in
  // allowed-turn successor order, and fully resolve the decision whenever
  // it is credit-independent (ejection, or exactly one continuation).
  // route() then answers single-candidate hops straight from the entry
  // and scans the candidates of multi-candidate hops in the order the
  // uncached successor scan visited them. Rebuilt whenever set_faults()
  // swaps the fault scenario (the distances the cache derives from change
  // with the scenario).
  const Topology& topo = plan_->topo();
  const LineGraph& graph = plan_->line_graph();
  const std::size_t n = static_cast<std::size_t>(graph.size());
  const auto& endpoints = topo.endpoints();
  route_cache_.assign(endpoints.size() * n, RouteEntry{});
  const VcMask vcs = all_vcs_mask(num_vcs_);
  for (std::size_t d = 0; d < endpoints.size(); ++d) {
    const NodeId dst = endpoints[d];
    // `row` is the very storage dist() indexes, so row[l] == dist(l, dst).
    // Most line nodes of most rows are 0 or kUnreachable and get no entry.
    const std::uint16_t* row =
        fault_dist_.empty() ? plan_->distance_row(d) : fault_dist_.data() + d * n;
    for (std::size_t l = 0; l < n; ++l) {
      const std::uint16_t here = row[l];
      if (here == 0 || here == MtrPlan::kUnreachable) {
        continue;
      }
      RouteEntry& entry = route_cache_[d * n + l];
      entry.decision.vcs = vcs;
      for (int s : graph.successors_flat(static_cast<int>(l))) {
        if (dist(s, dst) != here - 1) {
          continue;
        }
        if (!graph.is_channel(s)) {
          // Ejection wins immediately; later candidates are never visited.
          entry.eject = true;
          break;
        }
        check(entry.count < entry.ports.size(),
              "MtrRouting: more minimal continuations than RouteEntry holds");
        entry.ports[entry.count++] = static_cast<std::uint8_t>(
            port_index(topo.channel(static_cast<ChannelId>(s)).src_port));
      }
      if (entry.eject) {
        entry.decision.out_port = Port::local;  // ejection node of dst
      } else if (entry.count == 1) {
        entry.decision.out_port = static_cast<Port>(entry.ports[0]);
      }
    }
  }
}

const MtrRouting::RouteEntry& MtrRouting::entry_for(NodeId node, Port in_port,
                                                    NodeId dst) const {
  const LineGraph& graph = plan_->line_graph();
  int line_node;
  if (in_port == Port::local) {
    line_node = graph.injection_node(node);
  } else {
    const ChannelId in = plan_->topo().in_channel(node, in_port);
    check(in != kInvalidChannel, "MtrRouting: no channel on input port");
    line_node = graph.channel_node(in);
  }
  const int d = plan_->endpoint_index(dst);
  check(d >= 0, "MtrRouting: dst is not an endpoint");
  return route_cache_[static_cast<std::size_t>(d) *
                          static_cast<std::size_t>(graph.size()) +
                      static_cast<std::size_t>(line_node)];
}

bool MtrRouting::route_needs_view(NodeId node, Port in_port,
                                  const PacketRoute& rt) const {
  const RouteEntry& entry = entry_for(node, in_port, rt.dst);
  return !entry.eject && entry.count >= 2;
}

RouteDecision MtrRouting::route(NodeId node, Port in_port, int in_vc,
                                const PacketRoute& rt,
                                const RouterView& view) const {
  (void)in_vc;
  const RouteEntry& entry = entry_for(node, in_port, rt.dst);

  // Credit-independent hops (ejection or a forced continuation) were
  // resolved at cache-build time.
  if (entry.eject || entry.count == 1) {
    return entry.decision;
  }
  check(entry.count > 0, "MtrRouting: routing from an unreachable line node");

  // Adaptive tie-break among the memoized minimal continuations: prefer
  // the port with the most free downstream credits, first in successor
  // order on ties.
  int winner = 0;
  int best_credits = view.free_credits[entry.ports[0]];
  for (int i = 1; i < entry.count; ++i) {
    const int credits = view.free_credits[entry.ports[i]];
    if (credits > best_credits) {
      best_credits = credits;
      winner = i;
    }
  }
  RouteDecision decision = entry.decision;
  decision.out_port = static_cast<Port>(entry.ports[winner]);
  return decision;
}

bool MtrRouting::hop_viable(NodeId node, Port in_port,
                            const PacketRoute& rt) const {
  const LineGraph& graph = plan_->line_graph();
  int line_node;
  if (in_port == Port::local) {
    line_node = graph.injection_node(node);
  } else {
    const ChannelId in = plan_->topo().in_channel(node, in_port);
    check(in != kInvalidChannel, "MtrRouting: no channel on input port");
    line_node = graph.channel_node(in);
  }
  return dist(line_node, rt.dst) != MtrPlan::kUnreachable;
}

std::uint64_t MtrRouting::pair_combo_mask(NodeId src, NodeId dst) const {
  const Topology& topo = plan_->topo();
  if (src == dst || topo.node(src).chiplet == topo.node(dst).chiplet) {
    return kAlwaysReachable;
  }
  return plan_->pair_combos(src, dst);
}

bool MtrRouting::pair_reachable(NodeId src, NodeId dst) const {
  const Topology& topo = plan_->topo();
  const Node& s = topo.node(src);
  const Node& d = topo.node(dst);
  if (src == dst || s.chiplet == d.chiplet) {
    return true;
  }
  const std::uint64_t combos = plan_->pair_combos(src, dst);
  if (s.chiplet != kInterposer && d.chiplet != kInterposer) {
    // Joint mask: bit (down_idx * 8 + up_idx) usable.
    std::uint64_t alive = 0;
    const std::uint8_t downs = alive_down_[static_cast<std::size_t>(s.chiplet)];
    const std::uint8_t ups = alive_up_[static_cast<std::size_t>(d.chiplet)];
    for (int dn = 0; dn < 8; ++dn) {
      if (downs & (1u << dn)) {
        alive |= static_cast<std::uint64_t>(ups) << (8 * dn);
      }
    }
    return (combos & alive) != 0;
  }
  if (s.chiplet != kInterposer) {
    return (combos & alive_down_[static_cast<std::size_t>(s.chiplet)]) != 0;
  }
  return (combos & alive_up_[static_cast<std::size_t>(d.chiplet)]) != 0;
}

}  // namespace deft
